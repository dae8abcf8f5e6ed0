"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Runs the same code paths as the real workloads (the battery on trees:3
and terminal:3, a handful of queries) with tracing off and on, and
checks that every named metric is printed with its unit, that nothing
fails, and that BENCHMARK.json names the same metrics.  It then feeds a
deliberately wrong known answer to a battery and to a query block and
checks that the failure is counted, and runs the benchmark in a
directory without the opint sources, where it must fail without a
result.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

problems = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        problems.append(what)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def bench(argv, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py")] + argv,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_runs():
    for name in workloads.SMOKE_WORKLOADS:
        for trace, expected in ((0, run.E2E), (1, tracing.PER_LAYER)):
            proc = bench(["--workload", name, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace)])
            result = last_json(proc.stdout)
            label = "%s --trace %d" % (name, trace)
            check(proc.returncode == 0 and result is not None, label + " runs")
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  label + " prints exactly the four result keys")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == dict(expected), label + " prints every metric with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()), label + " values are numbers")
            check(result["attempted"] >= 1 and result["failed"] == 0
                  and result["correct"] is True, label + " failed_share == 0")


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E),
          "BENCHMARK.json end_to_end matches run.E2E")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER),
          "BENCHMARK.json per_layer matches tracing.PER_LAYER")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")


def check_gate_fires(tmp):
    _, _, results = workloads.run_battery("trees:3", expected={"check_unitality": "fail"})
    failed = sum(not ok for _, _, ok in results)
    check(failed == 1, "a wrong expected verdict raises failed_share to %d/%d"
          % (failed, len(results)))

    blocks = workloads.make_queries(workloads.SMOKE_WORKLOADS["smoke-queries"], 3, tmp)
    block = blocks[0]
    results = workloads.run_block(block)
    check(all(ok for _, _, ok in results), "the untouched block passes")
    wrong = next(q for q in block if q["family"] == "nat")
    wrong["expect"]["cells"] = wrong["expect"]["cells"][:-1]
    results = workloads.run_block(block)
    failed = sum(not ok for _, _, ok in results)
    check(failed == 1, "a wrong expected answer raises failed_share to %d/%d"
          % (failed, len(results)))


def check_without_sources(tmp):
    bare = os.path.join(tmp, "bare")
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(BENCH, name), os.path.join(bare, "bench"))
    proc = bench(["--workload", "battery-nat3", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and last_json(proc.stdout) is None,
          "without the opint sources the benchmark fails without a result")
    proc = bench(["--workload", "no-such-workload", "--seed", "1"])
    check(proc.returncode != 0 and last_json(proc.stdout) is None,
          "an unknown workload fails without a result")


def main():
    tmp = os.path.join(run.OUT, "smoke-%d" % os.getpid())
    os.makedirs(tmp)
    try:
        check_benchmark_json()
        check_runs()
        check_gate_fires(tmp)
        check_without_sources(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
