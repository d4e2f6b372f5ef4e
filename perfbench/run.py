#!/usr/bin/env python3
"""Host-cost benchmark for the Panda reproduction (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one table

Builds the benchmark binary from source (CMake, under .bench_build/perfbench
at the checkout root), runs one workload in its own process, checks that the
virtual (SP2-model) times match earlier runs of the same binary and seed, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the recorded spans to .bench_build/perfbench/traces/).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "panda_perfbench"
WORKLOADS = ["ckpt_natural", "reorg_traditional", "timestep_codec", "scale_1024"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no Panda sources under {ROOT / 'src'}; "
            "run from a full checkout")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def binary_digest():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_virtual(workload, seed, trace, virtual):
    """Virtual times must repeat bit for bit across runs of one binary."""
    path = BUILD / "virtual" / f"{workload}-seed{seed}-trace{trace}.json"
    record = {"binary": binary_digest(), "virtual": virtual}
    if path.is_file():
        try:
            old = json.loads(path.read_text())
        except ValueError:
            old = None
        if old and old.get("binary") == record["binary"]:
            if old.get("virtual") != virtual:
                log(f"FAILED: virtual times {virtual} differ from an earlier "
                    f"run of this binary: {old.get('virtual')}")
                return False
            return True
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record))
    return True


def run_one(workload, seed, seconds, trace):
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace_out={traces / f'{workload}-seed{seed}.json'}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: panda_perfbench exited with {proc.returncode}")
        sys.exit(1)
    raw = json.loads(lines[-1])
    virtual_ok = check_virtual(workload, seed, trace, raw["virtual"])
    return {
        "correct": bool(raw["correct"]) and virtual_ok,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]) + (0 if virtual_ok else 1),
        "metrics": raw["metrics"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    build()
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds,
                                 args.trace)))
        return

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(workload, args.seed, args.seconds, args.trace)
        print(f"{workload}: correct={result['correct']} "
              f"failed/attempted={result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
            total["metrics"][f"{workload}/{name}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))


if __name__ == "__main__":
    main()
