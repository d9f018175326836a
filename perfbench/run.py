#!/usr/bin/env python3
"""The repository benchmark: builds tb_perfbench from source and runs one
workload.

    python3 perfbench/run.py --workload integrated|loopback --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/ (or
$CARGO_TARGET_DIR when set). Every line of the measuring program's
report is passed through; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the
per-layer metrics that come from spans are computed here, by spans.py,
from the files the program wrote. The exit status is non-zero when the
build fails or a correctness check fails; then no metrics are printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import spans  # noqa: E402

ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the measuring program; its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True,
            stdout=sys.stderr,
        )
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "tb_perfbench", "-j", "4"],
        check=True,
        stdout=sys.stderr,
    )
    return os.path.join(build_dir, "tb_perfbench")


def source_revision():
    """The git revision, or a digest of the sources in a plain checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in sorted(os.listdir(ROOT)):
        if top.startswith(".") or not os.path.isdir(os.path.join(ROOT, top)):
            continue
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".cc", ".h", ".txt", ".py")):
                    with open(os.path.join(dirpath, f), "rb") as fh:
                        h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["integrated", "loopback"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument(
        "--fault",
        choices=["drop-response", "perturb-digest"],
        help="test only: inject a fault the correctness gate must catch",
    )
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spans", spans_dir,
        "--rev", source_revision(),
    ]
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.splitlines()
    if not lines:
        log("perfbench: no output (exit %d)" % proc.returncode)
        return proc.returncode or 4
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    if args.trace and result["correct"]:
        for label in ("low", "high"):
            path = os.path.join(spans_dir, "%s-%s.tsv" % (args.workload, label))
            metrics, summary = spans.analyze(path)
            for line in spans.describe(label, summary):
                print(line)
            # A request whose stamps are out of causal order was joined
            # to the wrong spans.
            result["attempted"] += summary["requests"]
            result["failed"] += summary["misordered"]
            if label == "high":
                for name, (value, unit) in metrics.items():
                    result["metrics"][name] = {"value": value, "unit": unit}
        if result["failed"]:
            result["correct"] = False
            result["metrics"] = {}
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
