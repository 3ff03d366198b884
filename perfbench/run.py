"""efbound benchmark: three workloads through `efbound.cli.main(argv)`.

    python3 perfbench/run.py --workload {sandwich,rank-bounds,udisj} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from src/.
One process runs one workload: it times fresh interpreters that import
efbound.cli and build the inputs (setup_s), and runs whole rounds of the
workload's operations in this process, as a library session would, until S
seconds have passed.  Every operation's exit code and output
are checked by checks.py, and after the last round selftest.py makes sure
the checks reject tampered copies of the first round's outputs.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json names, end to end with --trace 0 and per layer
with --trace 1.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# one thread: numpy reads these when efbound imports it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench_out"
# set-up samples before the first round (the last one's files are used) and
# after each round: spread over the run, so a slow spell of the machine
# touches a minority of them
SETUP_FIRST, SETUP_PER_ROUND = 3, 2

import checks  # noqa: E402
import selftest  # noqa: E402
import workloads  # noqa: E402


def time_setup(workload, seed, base, samples):
    """Wall times of `samples` set-ups, each a fresh interpreter."""
    times = []
    cmd = [sys.executable, os.path.join(HERE, "setup_inputs.py"), workload, str(seed), base]
    for _ in range(samples):
        t0 = time.perf_counter()
        # a blocking wait: Popen.wait(timeout) polls, in steps of up to 50 ms
        rc = subprocess.Popen(cmd, cwd=ROOT).wait()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"set-up exited {rc}")
    return times


def validate_canonical(workload, base):
    """The set-up files from `hardpair` and `hardpair-slack` match their
    closed forms (raises CheckError)."""
    canon = os.path.join(base, "canon")
    if workload == "sandwich":
        for n in (3, 4):
            pts, A, b = checks.load_pair(os.path.join(canon, f"p{n}.json"),
                                         os.path.join(canon, f"q{n}.json"))
            checks.check_hardpair_files(pts, A, b, n)
    elif workload == "rank-bounds":
        for n, rho in workloads.HARDPAIR_SLACKS:
            S = checks.slack_matrix(checks.load_json(
                os.path.join(canon, workloads.slack_name(n, rho))))
            checks.check_hardpair_slack_file(S, n, Fraction(rho))


def run_round(main, manifest, tracer, passed):
    """Run and check one round.  Returns (op seconds list, failures); the
    seconds are also printed to stderr, one line per operation.  Outputs
    that pass are listed in `passed` (when given) as (check kind, path,
    context); nothing parsed outlives its check."""
    times, failed = [], 0
    for op in manifest["ops"]:
        gc.collect()
        if tracer:
            tracer.on = True
        t0 = time.perf_counter()
        try:
            rc = main(op["argv"])
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.on = False
            tracer.counters["cli.main.bytes_out"] = tracer.counters.get(
                "cli.main.bytes_out", 0) + sum(
                os.path.getsize(p) for p in op["outputs"] if os.path.exists(p))
        times.append(dt)
        print(f"  {dt:8.3f} s  {op['name']}", file=sys.stderr)
        path = op["argv"][op["argv"].index("--out") + 1]
        try:
            checks.need(rc == op["rc"], f"exit {rc!r}, expected {op['rc']}")
            checks.CHECKS[op["check"]](checks.load_output(op["check"], path), op["ctx"])
            if passed is not None:
                passed.append((op["check"], path, op["ctx"]))
        except Exception as exc:  # a malformed output can break a check anywhere
            failed += 1
            print(f"FAILED {op['name']}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return times, failed


def layer_metrics(names, tracer, mark, counters_at_mark, rounds):
    """Per-layer values for one set-up plus one average round."""
    setup, run = tracer.totals(0, mark), tracer.totals(mark, len(tracer.spans))
    everything = tracer.totals(0, len(tracer.spans))
    out = {}
    for full in names:
        fn, stat = full.rsplit(".", 1)
        if stat in ("calls", "self_s"):
            i = 0 if stat == "calls" else 2
            v = setup.get(fn, (0, 0, 0))[i] + run.get(fn, (0, 0, 0))[i] / rounds
        elif stat == "ok_ratio":
            calls = everything.get(fn, (0,))[0]
            v = tracer.counters.get(f"{fn}.ok", 0) / calls if calls else 0.0
        elif stat == "max_bits":
            v = tracer.counters.get(full, 0)
        else:
            before = counters_at_mark.get(full, 0)
            v = before + (tracer.counters.get(full, 0) - before) / rounds
        out[full] = v
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "efbound", "cli.py")):
        print("perfbench: no src/efbound here; run from the root of an efbound checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    base = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    try:
        return measure(args, spec, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def measure(args, spec, base):
    tracer = None
    correct = True
    setup_times = []
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        cli_main = tracer.install("efbound")
        tracer.on = True
        manifest = workloads.prepare(cli_main, args.workload, base, args.seed)
        tracer.on = False
        mark, counters_at_mark = len(tracer.spans), dict(tracer.counters)
    else:
        setup_times += time_setup(args.workload, args.seed, base, SETUP_FIRST)
        from efbound.cli import main as cli_main
        with open(os.path.join(base, "r0", "round.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    try:
        validate_canonical(args.workload, base)
    except checks.CheckError as exc:
        correct = False
        print(f"set-up output wrong: {exc}", file=sys.stderr)

    rounds = []  # per round, each operation's seconds
    first = []   # round 0's outputs that passed, for the self-test at the end
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        r = len(rounds)
        times, bad = run_round(cli_main, manifest, tracer, first if r == 0 else None)
        rounds.append(times)
        attempted += len(times)
        failed += bad
        if r > 0:
            shutil.rmtree(os.path.join(base, f"r{r}"), ignore_errors=True)
        if not tracer:
            setup_times += time_setup(args.workload, args.seed,
                                      os.path.join(base, "setup"), SETUP_PER_ROUND)
        if time.perf_counter() - start >= args.seconds:
            break
        manifest = workloads.build_round(cli_main, args.workload, base, args.seed, r + 1)
    # read before the self-test, whose copies of outputs are not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    forged = selftest.tampered_accepted(first)
    if forged:
        correct = False
        print(f"checks accepted tampered outputs: {forged}", file=sys.stderr)

    # a typical round: each operation at its median over the rounds
    typical = [statistics.median(op) for op in zip(*rounds)]
    wall = sum(typical)
    print(f"{args.workload}: {len(rounds)} rounds of {[round(sum(t), 3) for t in rounds]} s, "
          f"typical {wall:.3f} s", file=sys.stderr)
    if tracer:
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(names, tracer, mark, counters_at_mark, len(rounds))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        write_trace_summary(tracer, args, wall)
    else:
        values = {"wall_s": wall,
                  "op_p50_s": statistics.median(typical),
                  "peak_rss_mb": peak_rss_mb,
                  "setup_s": statistics.median(setup_times)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


def write_trace_summary(tracer, args, wall):
    """Every span name's calls, total and self seconds, for reading by hand."""
    rows = {name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(tracer.totals(0, len(tracer.spans)).items())}
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traced_wall_s": wall, "counters": tracer.counters, "spans": rows},
                  fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
