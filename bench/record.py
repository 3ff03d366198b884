"""Record one benchmark run in a BENCH file.

    python3 bench/record.py --workload W --seed N --tree PATH --tag T

Runs PATH/perfbench/run.py --workload W --seed N --seconds 25 in a fresh
interpreter, so that it times the source in PATH, and appends the run's
final JSON object, with the seed, PATH's git commit and the Python version,
to bench/BENCH_<W>_<T>.json.  It then rewrites that file's summary: every
end-to-end metric's median and quartiles over all the runs in the file.

Ten seeds recorded under one tag for the parent commit and under another for
a change, alternating which tree runs first, give the before/after pair that
a speed claim cites.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = 25


def _git(tree, *args):
    return subprocess.run(["git", "-C", tree, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def summarize(runs):
    """Per metric: unit, median and quartiles over the runs' values."""
    metrics = {}
    for name in runs[0]["result"]["metrics"]:
        vals = sorted(r["result"]["metrics"][name]["value"] for r in runs)
        q1, _, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                     if len(vals) > 1 else vals * 3)
        metrics[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                         "median": statistics.median(vals), "q1": q1, "q3": q3}
    return {"runs": len(runs),
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "metrics": metrics}


def record(workload, seed, tree, tag, bench_dir=HERE, seconds=SECONDS):
    """Run the benchmark of `tree` once and append it to the BENCH file in
    bench_dir; returns the file's path."""
    tree = os.path.abspath(tree)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"record: the benchmark exited {proc.returncode}")
    run = {"seed": seed, "seconds": seconds,
           "commit": _git(tree, "rev-parse", "HEAD"),
           "dirty": bool(_git(tree, "status", "--porcelain", "--untracked-files=no")),
           "python": platform.python_version(),
           "result": json.loads(lines[-1])}
    path = os.path.join(bench_dir, f"BENCH_{workload}_{tag}.json")
    data = {"workload": workload, "tag": tag, "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["runs"].append(run)
    data["summary"] = summarize(data["runs"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tree", required=True, help="root of the efbound checkout to run")
    ap.add_argument("--tag", required=True, help="names the file, e.g. parent or change")
    args = ap.parse_args(argv)
    print(record(args.workload, args.seed, args.tree, args.tag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
