#!/usr/bin/env python3
"""Repository benchmark driver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the repository's libraries and the perfbench binary from source
(CMake, optimized, into $CARGO_TARGET_DIR/perfbench or .bench_build/perfbench),
measures the set-up time by launching the binary several times with
--setup-only, then runs the workload once. The last stdout line is the
result object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
(--trace 0) report the end-to-end metrics, traced runs (--trace 1) the
per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
SETUP_LAUNCHES = 15
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure (once) and build; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def source_id():
    """Commit id when the checkout is a git repository, plus a digest of
    src/ so runs of a plain export still name the code they measured."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return f"{commit}+src-{digest.hexdigest()[:12]}"


def last_json_line(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def measure_setup(binary, workload, seed):
    """Median set-up time over several fresh processes [s]: calibrated to
    the reference speed, and raw."""
    values, raw = [], []
    for _ in range(SETUP_LAUNCHES):
        cmd = [str(binary), "--workload", workload, "--seed", str(seed),
               "--setup-only", "--spawn-ns", str(time.monotonic_ns())]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up launch failed")
        launch = last_json_line(proc.stdout)
        values.append(float(launch["setup_s"]))
        raw.append(float(launch["raw_setup_s"]))
    return statistics.median(values), statistics.median(raw)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1

    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None
        if args.trace == 0:
            setup_s, raw_setup_s = measure_setup(binary, args.workload,
                                                 args.seed)
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work),
               "--commit", source_id()]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as e:
        log(f"run failed: {e}")
        return 1
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        log(f"no result (exit code {proc.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"unparseable result line (exit code {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    if setup_s is not None:
        print(json.dumps({"setup": {"launches": SETUP_LAUNCHES,
                                    "raw_setup_s": raw_setup_s}}))
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **result["metrics"]}
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
