"""Steadiness check: run one workload on ten seeds, report the spread.

    python3 perfbench/steadiness.py --workload NAME

Runs ``perfbench/run.py`` for --seconds run_seconds of BENCHMARK.json on
seeds 1 to 10, one run at a time, and prints for every end-to-end metric
its median and its spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  A metric is steady when its spread is below a third of its
bound.  The share of failed operations must be the same on every run.
Then two traced runs of seed 1 must give the same per-layer counts.

The summary is written to ``.perfbench-out/steadiness-NAME.json``.  If
an earlier summary is there, each median is also compared with the
earlier one: two sets agree when no median is worse than the earlier
one by more than the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
SEEDS = range(1, 11)
COUNT_UNITS = ("count", "bytes")


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric, earlier, now):
    """How much worse `now` is than `earlier`, as a share of `earlier`."""
    change = (now - earlier) / earlier
    return change if metric["better"] == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    workload = parser.parse_args().workload

    results = []
    for seed in SEEDS:
        out = run(spec, workload, seed, 0)
        results.append(out)
        print(f"seed {seed}: correct {out['correct']} failed "
              f"{out['failed']}/{out['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
              flush=True)

    path = os.path.join(OUT, f"steadiness-{workload}.json")
    earlier = None
    if os.path.isfile(path):
        with open(path) as fh:
            earlier = json.load(fh)
    summary = {"workload": workload, "seeds": [SEEDS[0], SEEDS[-1]],
               "seconds": spec["run_seconds"], "metrics": {}}
    steady = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    steady &= len(shares) == 1
    agree = True
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        ok = spread < m["bound"] / 3
        steady &= ok
        summary["metrics"][m["name"]] = {
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": m["bound"], "values": values}
        line = (f"{m['name']:>12}: median {med:.5g} {m['unit']}, spread "
                f"{spread:.4f} (bound {m['bound']}) "
                f"{'ok' if ok else 'TOO WIDE'}")
        if earlier is not None:
            before = earlier["metrics"][m["name"]]["median"]
            worse = worse_by(m, before, med)
            agree &= worse <= m["bound"]
            line += f"; earlier set {before:.5g}, worse by {worse:+.4f}"
        print(line)
    print(f"failed share per run: {sorted(shares)}")
    summary["failed_shares"] = sorted(shares)
    if earlier is not None:
        agree &= earlier["failed_shares"] == summary["failed_shares"]
        print("agrees with the earlier set" if agree
              else "DISAGREES with the earlier set")

    traced = [run(spec, workload, SEEDS[0], 1) for _ in range(2)]
    counts = [{m["name"]: t["metrics"][m["name"]]["value"]
               for m in spec["per_layer"] if m["unit"] in COUNT_UNITS}
              for t in traced]
    differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    steady &= all(t["correct"] for t in traced) and not differ
    print("per-layer counts of two traced runs: " +
          (f"DIFFER in {differ}" if differ else "the same"))
    summary["traced"] = {k: v["value"]
                         for k, v in traced[0]["metrics"].items()}

    summary["steady"] = steady
    os.makedirs(OUT, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
    print("steady" if steady else "NOT steady")
    return 0 if steady and agree else 1


if __name__ == "__main__":
    sys.exit(main())
