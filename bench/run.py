"""Benchmark of opint: time to verdict and one-shot query latency.

Run from the root of a checkout:

    python3 bench/run.py --workload battery-nat3 --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  Each workload runs in
fresh child processes, so its peak memory and gc counters are its own;
each battery has a process to itself.  Set-up (importing opint and
generating the seeded inputs) is repeated in further fresh processes and
reported as a median.  End-to-end times
are scaled to a nominal machine speed measured during the run (see
speed.py); the wall times are printed beside them.  With ``--trace 0``
the last line of output is a JSON object with every end-to-end metric;
with ``--trace 1`` it holds every per-layer metric instead.  See
README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

clock = time.perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_REPEATS = 5           # set-up samples per run, besides the measured child's
SETUP_TIMEOUT_S = 20        # together the children must end within 180 s
RUN_TIMEOUT_S = 140

E2E = (("verdict_s", "s"), ("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
       ("queries_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def p90(values):
    """The 90th percentile; interpolated between samples when there are few."""
    method = "exclusive" if len(values) >= 10 else "inclusive"
    return statistics.quantiles(values, n=10, method=method)[8] \
        if len(values) > 1 else values[0]


# ---------------------------------------------------------------------------
# child process: set up, then measure one workload


def setup(name, seed, json_dir, speed):
    """Import opint and generate the seeded inputs.

    Returns the scaled set-up time, the workload and its inputs.
    """
    import workloads
    speed.sample()
    t0 = clock()
    sys.path.insert(0, SRC)
    import opint  # noqa: F401
    import opint.cli  # noqa: F401
    w = workloads.WORKLOADS.get(name) or workloads.SMOKE_WORKLOADS[name]
    inputs = workloads.make_queries(w, seed, json_dir) \
        if isinstance(w, workloads.Queries) else None
    t1 = clock()
    speed.sample()
    return speed.scale(t0, t1), w, inputs


def latency_metrics(times, unit_s):
    """Metrics of a closed loop whose requests took ``times`` (scaled seconds)."""
    return {
        "verdict_s": unit_s,
        "query_p50_ms": 1e3 * statistics.median(times),
        "query_p90_ms": 1e3 * p90(times),
        "queries_per_s": len(times) / sum(times),
    }


def speed_info(speed, spans):
    return {"wall_s_median": statistics.median(b - a for a, b in spans),
            "slowdown_median": statistics.median(speed.slowdown(a, b) for a, b in spans)}


def measure_battery(w, speed):
    """One battery, from operad spec to last verdict, in this fresh process."""
    import workloads
    start, end, results = workloads.run_battery(w.spec)
    speed.sample()
    return {"verdict_s": speed.scale(start, end)}, len(results), \
        sum(not ok for _, _, ok in results), \
        {"wall_s": end - start, "slowdown": speed.slowdown(start, end)}


def measure_queries(blocks, seconds, speed):
    """Whole blocks of the stream, in a closed loop, until ``seconds`` pass.

    ``verdict_s`` is the median time to answer one whole block.
    """
    import workloads
    answered = []
    t0 = clock()
    while not answered or clock() - t0 < seconds:
        answered.append(workloads.run_block(blocks[len(answered) % len(blocks)]))
    speed.sample()
    spans = [(a, b) for block in answered for a, b, _ in block]
    times = [speed.scale(a, b) for a, b in spans]
    per_block = len(answered[0])
    block_times = [sum(times[i:i + per_block]) for i in range(0, len(times), per_block)]
    tail = p90(times)
    return latency_metrics(times, statistics.median(block_times)), len(times), \
        sum(not ok for block in answered for _, _, ok in block), \
        {"blocks": len(answered), "latency_samples": len(times),
         "samples_beyond_p90": sum(t > tail for t in times), **speed_info(speed, spans)}


def trace_battery(w, tracer, speed):
    """One battery untraced, then one traced.

    Returns the tracing overhead, the traced wall time and the machine's
    slowdown over it, and the check counts.
    """
    import workloads
    a0, b0, plain = workloads.run_battery(w.spec)
    tracer.install()
    try:
        a1, b1, traced = workloads.run_battery(w.spec, tracer)
    finally:
        tracer.uninstall()
    checks = plain + traced
    return speed.scale(a1, b1) - speed.scale(a0, b0), b1 - a1, speed.slowdown(a1, b1), \
        len(checks), sum(not ok for _, _, ok in checks)


def trace_queries(w, blocks, tracer, speed):
    """The first blocks untraced, then traced; the overhead is per block."""
    import workloads
    chosen = blocks[:w.trace_blocks]
    plain = [workloads.run_block(b) for b in chosen]
    tracer.install()
    try:
        traced = [workloads.run_block(b, tracer) for b in chosen]
    finally:
        tracer.uninstall()

    def block_s(block):
        return sum(speed.scale(a, b) for a, b, _ in block)

    wall_s = sum(b - a for block in traced for a, b, _ in block)
    results = [ok for block in plain + traced for _, _, ok in block]
    return statistics.median(map(block_s, traced)) - statistics.median(map(block_s, plain)), \
        wall_s, wall_s / sum(map(block_s, traced)), len(results), results.count(False)


def child(args):
    os.makedirs(OUT, exist_ok=True)
    json_dir = os.path.join(OUT, "inputs-%d" % os.getpid())
    os.makedirs(json_dir)
    import speed as speedometer
    speed = speedometer.Speedometer()
    speed.start()
    try:
        setup_s, w, blocks = setup(args.workload, args.seed, json_dir, speed)
        if args.child == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        import workloads
        info = {}
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            trace = trace_queries(w, blocks, tracer, speed) \
                if isinstance(w, workloads.Queries) else trace_battery(w, tracer, speed)
            overhead_s, wall_s, slowdown, attempted, failed = trace
            metrics = tracer.metrics(wall_s, slowdown, overhead_s)
            path = os.path.join(OUT, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
            tracer.dump(path)
            info["spans"] = len(tracer.spans)
        elif isinstance(w, workloads.Queries):
            metrics, attempted, failed, info = measure_queries(blocks, args.seconds, speed)
        else:
            metrics, attempted, failed, info = measure_battery(w, speed)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"setup_s": setup_s, "attempted": attempted, "failed": failed,
                          "metrics": metrics, "info": info}))
        return 0
    finally:
        speed.stop()
        shutil.rmtree(json_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# parent process


def run_child(argv, timeout):
    """Run ``run.py --child ...``; its last output line is JSON."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv,
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError("child %s exited with %d" % (argv, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge_batteries(runs):
    """One result from fresh processes that ran one battery each.

    On a battery workload one query is one whole battery.
    """
    times = [r["metrics"]["verdict_s"] for r in runs]
    metrics = latency_metrics(times, statistics.median(times))
    metrics["peak_rss_mb"] = statistics.median(r["metrics"]["peak_rss_mb"] for r in runs)
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics,
            "info": {"batteries": len(runs),
                     "wall_s_median": statistics.median(r["info"]["wall_s"] for r in runs),
                     "slowdown_median": statistics.median(r["info"]["slowdown"] for r in runs)}}


def run_workload(args, name, battery):
    """Set-up samples, then the workload, each in fresh processes.

    A battery runs alone in its process, like a cold ``opint`` process,
    so that no battery is warmed by an earlier one; batteries are repeated
    for about ``--seconds``, the first one setting the count.
    """
    base = ["--workload", name, "--seed", str(args.seed)]
    setups = [run_child(["--child", "setup"] + base, SETUP_TIMEOUT_S)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    argv = ["--child", "run", "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + base
    t0 = clock()
    runs = [run_child(argv, RUN_TIMEOUT_S)]
    if battery and not args.trace:
        for _ in range(round(args.seconds / (clock() - t0)) - 1):
            runs.append(run_child(argv, RUN_TIMEOUT_S))
        result = merge_batteries(runs)
    else:
        result = runs[0]
    result["metrics"]["setup_s"] = statistics.median(setups + [r["setup_s"] for r in runs])
    return result


def report(name, args, result):
    """Human-readable lines for one workload; returns its metrics with units."""
    import tracing
    attempted, failed = result["attempted"], result["failed"]
    print("%s seed=%d trace=%d: %d attempted, %d failed, failed_share=%.4f %s"
          % (name, args.seed, args.trace, attempted, failed, failed / attempted,
             json.dumps(result["info"], sort_keys=True)))
    units = tracing.PER_LAYER if args.trace else E2E
    metrics = {}
    for metric, unit in units:
        value = result["metrics"][metric]
        metrics[metric] = {"value": value, "unit": unit}
        print("  %-52s %16.6f %s" % (metric, value, unit))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, BENCH)
    import workloads
    if args.child:
        return child(args)
    if not os.path.isfile(os.path.join(SRC, "opint", "__init__.py")):
        print("error: no opint sources under %s" % SRC, file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names
               if n not in workloads.WORKLOADS and n not in workloads.SMOKE_WORKLOADS]
    if unknown:
        print("error: unknown workload %s" % unknown[0], file=sys.stderr)
        return 2
    # build: byte-compile once, so set-up times measure imports, not compiles
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, BENCH], check=True,
                   stdout=subprocess.DEVNULL)
    attempted = failed = 0
    metrics = {}
    for name in names:
        w = workloads.WORKLOADS.get(name) or workloads.SMOKE_WORKLOADS[name]
        result = run_workload(args, name, isinstance(w, workloads.Battery))
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in report(name, args, result).items():
            metrics[metric if len(names) == 1 else name + "/" + metric] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
