#!/usr/bin/env python3
"""Build and run the rrb benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

A run builds `perfbench/` (its own Cargo package, release profile with
thin LTO and debug info) into `$CARGO_TARGET_DIR`, default `.bench_build`,
then runs the workload in its own process. It prints a provenance record
and, as the last line, the result object
`{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`. It exits non-zero, with no
result line, if the build or the run cannot complete, and with code 1 after
the result line if any broadcast failed its check.

`--self-test` runs every workload at quick size, untraced, traced and
untraced again, and checks that each metric named in BENCHMARK.json is
printed with its unit and that the deterministic statistics (also printed
in the provenance record) repeat exactly across the three runs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["regular_4choice", "churn_multirumour", "async_burst"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(3)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path."""
    for needed in ("Cargo.lock", "crates", "vendor"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's output goes to stderr so the last stdout line stays the result.
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})")
    return os.path.join(target_dir(), "release", "rrb-perfbench")


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "fixtures"))
            files += [os.path.join(dirpath, f) for f in filenames
                      if f.endswith((".rs", ".toml", ".py"))]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def run_once(binary, workload, seed, seconds, trace, quick=False):
    """Runs one workload process; returns (exit code, provenance, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        provenance = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        fail(f"{workload} printed no result (exit code {proc.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} printed a malformed result: {lines[-1]}")
    return proc.returncode, provenance, result


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    binary = build()
    problems = []
    for workload in WORKLOADS:
        before = len(problems)
        first = None
        for trace in (0, 1, 0):
            code, provenance, result = run_once(binary, workload, 7, 1, trace, quick=True)
            label = f"{workload} trace={trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {code}, result {result}")
            metrics = result["metrics"]
            for m in wanted[trace]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{label}: metric {m['name']} [{m['unit']}] printed as {got}")
            # The deterministic statistics must repeat exactly, traced or not.
            stats = provenance["statistics"]
            if trace == 0 and any(metrics[k]["value"] != v["value"] for k, v in stats.items()):
                problems.append(f"{label}: metrics disagree with statistics {stats}")
            first = first or stats
            if stats != first:
                problems.append(f"{label}: statistics {stats} != {first} on the same seed")
        found = len(problems) - before
        print(f"self-test {workload}: " + (f"{found} problems" if found else "ok"))
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "pass", "problems": len(problems)}))
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None:
        parser.error("--workload is required")
    binary = build()
    code, provenance, result = run_once(binary, args.workload, args.seed, args.seconds,
                                        args.trace)
    provenance.update(git_revision=git_revision(), source_sha256=source_digest())
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
