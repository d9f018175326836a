#!/usr/bin/env python3
"""Self-test of the benchmark, in a seconds-long tiny mode.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced through
run.py and checks that each end-to-end (resp. per-layer) metric is
printed by name with its declared unit, and each ungated one on its
report line. Then checks that the
correctness gate fails, with a non-zero exit and no metrics, when a
test-only Transport decorator drops one response and when the
virtual-time digest is perturbed, and that the span reader flags
requests joined to another request's App::process span. Exits non-zero
on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_SECONDS = "2"
# Printed on "ungated" report lines, outside the result object.
UNGATED = (
    ("p50_us.high", "us"),
    ("p99_us.high", "us"),
    ("p99_all_us.high", "us"),
    ("p50_us.low", "us"),
    ("p99_us.low", "us"),
    ("p99_all_us.low", "us"),
    ("late_frac.low", "frac"),
    ("max_qps_at_slo", "1/s"),
)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import spans  # noqa: E402


def run(workload, trace, seed=7, fault=None):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", TINY_SECONDS,
        "--trace", str(trace),
    ]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, lines


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


def misjoin(path):
    """Writes a copy of a span file in which the first and the last
    request have swapped App::process spans; returns its path."""
    with open(path) as f:
        rows = [line.rstrip("\n").split("\t") for line in f if not line.startswith("#")]
    process = [r for r in rows if r[0] == "apps.process"]
    first, last = process[0], process[-1]
    first[4], last[4] = last[4], first[4]
    out = path[: -len(".tsv")] + "-misjoined.tsv"
    with open(out, "w") as f:
        f.writelines("\t".join(r) + "\n" for r in rows)
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, lines = run(w["name"], trace)
            expect(code == 0 and result is not None and result["correct"],
                   "%s trace=%d runs clean" % (w["name"], trace))
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       "%s trace=%d prints %s [%s]" % (w["name"], trace, m["name"], m["unit"]))
            expect(set(metrics) == {m["name"] for m in declared},
                   "%s trace=%d prints no undeclared metric" % (w["name"], trace))
            if trace == 0:
                ungated = {tuple(l.split()[1:4:2]) for l in lines if l.startswith("ungated ")}
                for name, unit in UNGATED:
                    expect((name, unit) in ungated,
                           "%s reports ungated %s [%s]" % (w["name"], name, unit))
    name = spec["workloads"][0]["name"]
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    traced = os.path.join(build_dir, "spans", "%s-high.tsv" % name)
    expect(spans.analyze(traced)[1]["misordered"] == 0, "%s spans are in causal order" % name)
    expect(spans.analyze(misjoin(traced))[1]["misordered"] == 2,
           "span reader flags two requests joined to each other's spans")
    for fault, seed in (("drop-response", 7), ("perturb-digest", 42)):
        code, result, _ = run(name, 0, seed=seed, fault=fault)
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] > 0 and result["metrics"] == {},
               "gate fails on %s" % fault)
    print("selftest passed")


if __name__ == "__main__":
    main()
