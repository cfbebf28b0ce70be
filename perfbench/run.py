#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call builds the simulator from
src/ and the benchmark binary with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls only relink what changed.
The binary runs one workload in its own process and prints a metric table;
the last line of standard output is the JSON result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("vector-pingpong", "halo3d", "coll-mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)
    binary = out / "perfbench"
    if not binary.is_file():
        log(f"build produced no {binary}")
        sys.exit(1)
    return binary


def run_binary(binary, args):
    try:
        res = subprocess.run([str(binary)] + args, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s (hung)")
        sys.exit(1)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        log(f"benchmark binary failed with exit code {res.returncode}")
        sys.exit(1)
    return lines[:-1], json.loads(lines[-1])


def expected_metrics(trace):
    """(name, unit) of each metric BENCHMARK.json promises for this mode,
    or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_repeatable(binary, table, workload, seed):
    """Cross-process determinism guard: a second run of the same binary and
    seed must print the same fingerprint as the first one recorded."""
    line = next((l for l in table if l.startswith("fingerprint ")), None)
    if line is None:
        return False
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    store = build_dir() / "fingerprints" / digest / f"{workload}-{seed}.txt"
    current = line.split()[1]
    if store.is_file():
        recorded = store.read_text().strip()
        if recorded != current:
            log(f"fingerprint {current} differs from the earlier run's "
                f"{recorded} for the same binary and seed")
            return False
        return True
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(current + "\n")
    return True


def run(opts):
    if opts.workload not in WORKLOADS:
        log(f"unknown workload {opts.workload!r}; choose from {WORKLOADS}")
        sys.exit(2)
    binary = build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        spans = build_dir() / "spans" / f"{opts.workload}-seed{opts.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        args += ["--spans-out", str(spans)]
    table, result = run_binary(binary, args)
    for line in table:
        print(line)
    if opts.trace:
        print(f"spans written to {spans}")
    want = expected_metrics(opts.trace)
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if want is not None and got != want:
        log("printed metrics do not match BENCHMARK.json: "
            f"{sorted(set(want) ^ set(got))}")
        sys.exit(1)
    if not check_repeatable(binary, table, opts.workload, opts.seed):
        result["correct"] = False
    print(json.dumps(result))


def self_test():
    """Damage one delivered payload per round in every workload and show
    that the output checks catch it."""
    binary = build()
    ok = True
    for w in WORKLOADS:
        _, res = run_binary(binary, ["--workload", w, "--seed", "7",
                                     "--seconds", "0", "--trace", "0",
                                     "--corrupt"])
        caught = not res["correct"] and 0 < res["failed"] < res["attempted"]
        ok &= caught
        print(f"{w:16s} corrupted payload {'caught' if caught else 'MISSED'}"
              f" ({res['failed']}/{res['attempted']} ops failed)")
    print("self-test", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    opts = p.parse_args()
    if opts.self_test:
        self_test()
    if opts.workload is None:
        p.error("--workload is required")
    run(opts)


if __name__ == "__main__":
    main()
